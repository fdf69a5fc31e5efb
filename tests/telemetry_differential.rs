//! Telemetry-neutrality differential suite (PR 7): instrumentation must
//! *observe* the pipeline, never steer it.
//!
//! Three contracts are pinned:
//!
//! * **byte-identical artifacts** — compiling with an enabled [`Telemetry`]
//!   sink produces gate-for-gate, vtree-node-for-vtree-node the artifact of
//!   the disabled (default) sink, at `threads ∈ {1, 8}`, and session
//!   answers are equal on both session backends and to the core
//!   evaluator's shared-dd answers;
//! * **counter monotonicity** — request and cache counters only grow across
//!   repeated batches, and grow by exactly the batch size where the schema
//!   promises it;
//! * **export stability** — `EvalSession::metrics()` reports the stage
//!   spans, per-tier decision counts, and cache occupancy the run implies,
//!   and the JSON-lines serialization of the merged snapshot round-trips.

use proptest::prelude::*;
use treelineage::prelude::*;
use treelineage::{ProbabilityRequest, ThresholdRequest, WmcRequest};
use treelineage_automata::strategies as tree_strategies;
use treelineage_engine::compile_structured_dnnf_parallel;
use treelineage_instance::strategies as instance_strategies;

fn sig() -> Signature {
    Signature::builder()
        .relation("R", 2)
        .relation("S", 2)
        .relation("L", 1)
        .build()
}

fn query() -> UnionOfConjunctiveQueries {
    parse_query(&sig(), "R(x, y), S(y, z)").unwrap()
}

fn config(threads: usize, telemetry: Telemetry) -> EngineConfig {
    EngineConfig {
        telemetry,
        fragment_grain: 6,
        ..EngineConfig::with_threads(threads)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Enabled vs disabled telemetry: byte-identical d-SDNNF artifacts at
    /// 1 and 8 threads (gates, operand order, output, vtree, universe).
    #[test]
    fn compiled_artifacts_ignore_telemetry(
        tree in tree_strategies::uncertain_tree(48, 3),
        automaton in tree_strategies::deterministic_automaton(3, 4),
    ) {
        for threads in [1usize, 8] {
            let plain = match compile_structured_dnnf_parallel(
                &automaton,
                &tree,
                &config(threads, Telemetry::disabled()),
            ) {
                Ok(p) => p,
                // Invalid tree/automaton pairs must fail identically.
                Err(e) => {
                    let traced = compile_structured_dnnf_parallel(
                        &automaton,
                        &tree,
                        &config(threads, Telemetry::enabled()),
                    );
                    prop_assert_eq!(e.to_string(), traced.unwrap_err().to_string());
                    continue;
                }
            };
            let traced = compile_structured_dnnf_parallel(
                &automaton,
                &tree,
                &config(threads, Telemetry::enabled()),
            )
            .unwrap();
            let (pc, tc) = (
                plain.structured().dnnf().circuit(),
                traced.structured().dnnf().circuit(),
            );
            prop_assert_eq!(pc.size(), tc.size(), "threads={}", threads);
            for id in pc.gate_ids() {
                prop_assert_eq!(pc.gate(id), tc.gate(id), "gate {:?}, threads={}", id, threads);
            }
            prop_assert_eq!(pc.output(), tc.output());
            let (pv, tv) = (plain.structured().vtree(), traced.structured().vtree());
            prop_assert_eq!(pv.node_count(), tv.node_count());
            for i in 0..pv.node_count() {
                prop_assert_eq!(
                    pv.node(treelineage_circuit::VtreeId(i)),
                    tv.node(treelineage_circuit::VtreeId(i))
                );
            }
            prop_assert_eq!(pv.root(), tv.root());
            prop_assert_eq!(plain.structured().universe(), traced.structured().universe());
        }
    }

    /// End-to-end session runs: equal batch answers with telemetry on and
    /// off, on both session backends, and equal to the core evaluator's
    /// OBDD answers (an independent compile route).
    #[test]
    fn session_answers_ignore_telemetry(
        (inst, td) in instance_strategies::treelike_instance_with_decomposition(sig(), 7, 2),
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 10);
        let probs: Vec<f64> =
            (0..inst.fact_count()).map(|i| [0.5, 0.25, 0.75][i % 3]).collect();
        let valuation = ProbabilityValuation::from_f64(&inst, &probs);
        let oracle = ProbabilityEvaluator::new(&inst, &valuation).with_decomposition(td.clone());
        let probability = oracle.query_probability(&query()).unwrap();
        let count = oracle.model_count(&query()).unwrap();
        for threads in [1usize, 8] {
            for backend in [SessionBackend::Automaton, SessionBackend::FloatFirst] {
                let run = |telemetry: Telemetry| {
                    let mut session =
                        EvalSession::with_backend(config(threads, telemetry), backend);
                    let qid = session.register_query(query());
                    let iid = session
                        .register_instance_with_decomposition(inst.clone(), td.clone())
                        .unwrap();
                    let requests: Vec<ProbabilityRequest> = (0..3)
                        .map(|_| ProbabilityRequest {
                            query: qid,
                            instance: iid,
                            valuation: valuation.clone(),
                        })
                        .collect();
                    let answers = session.batch_probability(&requests);
                    let counts = session.batch_model_count(&[(qid, iid)]);
                    (answers, counts)
                };
                let plain = run(Telemetry::disabled());
                let traced = run(Telemetry::enabled());
                prop_assert_eq!(&plain, &traced, "{:?}, threads={}", backend, threads);
                let (answers, counts) = plain;
                for answer in answers {
                    prop_assert_eq!(answer.unwrap(), probability.clone());
                }
                prop_assert_eq!(counts[0].clone().unwrap(), count.clone());
            }
        }
    }
}

/// Request and cache counters are monotone across repeated batches, and the
/// request counter advances by exactly the batch size.
#[test]
fn counters_are_monotone_across_batches() {
    let telemetry = Telemetry::enabled();
    let mut session = EvalSession::new(config(2, telemetry));
    let qid = session.register_query(query());
    let mut inst = Instance::new(sig());
    for i in 0..6u64 {
        inst.add_fact_by_name("R", &[i, i + 1]);
        inst.add_fact_by_name("S", &[i + 1, i + 2]);
    }
    let iid = session.register_instance(inst.clone());
    let valuation = ProbabilityValuation::all_one_half(&inst);
    let requests: Vec<ProbabilityRequest> = (0..4)
        .map(|_| ProbabilityRequest {
            query: qid,
            instance: iid,
            valuation: valuation.clone(),
        })
        .collect();
    let mut last_stats = session.stats();
    let mut last_requests_total = 0u64;
    let mut last_pool_tasks = 0u64;
    for round in 0..3 {
        let results = session.batch_probability(&requests);
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = session.stats();
        assert_eq!(stats.requests, last_stats.requests + requests.len());
        assert!(stats.lineage_hits >= last_stats.lineage_hits);
        assert_eq!(stats.lineage_misses, 1, "round {round}: one compile ever");
        assert_eq!(stats.errors, 0);
        let snap = session.metrics();
        let requests_total = snap.counter_total("requests_total");
        assert_eq!(requests_total, last_requests_total + requests.len() as u64);
        let pool_tasks = snap.counter_total("pool_tasks_total");
        assert!(
            pool_tasks >= last_pool_tasks + requests.len() as u64,
            "round {round}: pool ran every request task"
        );
        last_stats = stats;
        last_requests_total = requests_total;
        last_pool_tasks = pool_tasks;
    }
}

/// The merged metrics surface: stage spans, per-tier decision counts, cache
/// occupancy, and both export formats.
#[test]
fn metrics_report_stages_tiers_and_caches() {
    let telemetry = Telemetry::enabled();
    let mut session = EvalSession::with_backend(config(2, telemetry), SessionBackend::FloatFirst);
    let qid = session.register_query(query());
    let mut inst = Instance::new(sig());
    for i in 0..5u64 {
        inst.add_fact_by_name("R", &[i, i + 1]);
        inst.add_fact_by_name("S", &[i + 1, i + 2]);
    }
    let iid = session.register_instance(inst.clone());
    let valuation = ProbabilityValuation::all_one_half(&inst);
    let decisions = session.batch_threshold(&[
        ThresholdRequest {
            query: qid,
            instance: iid,
            valuation: valuation.clone(),
            threshold: Rational::from_ratio_u64(1, 1000),
        },
        ThresholdRequest {
            query: qid,
            instance: iid,
            valuation: valuation.clone(),
            threshold: Rational::from_ratio_u64(999, 1000),
        },
    ]);
    assert!(decisions.iter().all(|d| d.is_ok()));

    let snap = session.metrics();
    // Stage spans: the pipeline ran encode → query compile → automaton
    // materialization → d-SDNNF compilation.
    for stage in ["encode", "query_compile", "automaton_materialize"] {
        let agg = snap
            .span(stage)
            .unwrap_or_else(|| panic!("missing span {stage:?}"));
        assert!(agg.count >= 1, "{stage}: {agg:?}");
        assert!(agg.min_ns <= agg.max_ns);
    }
    assert!(
        snap.span("dsdnnf_compile").is_some(),
        "the d-SDNNF compile must have run"
    );
    // Per-tier decision counts: both clear thresholds were float decisions.
    assert_eq!(
        snap.counter(
            "requests_total",
            &[("kind", "threshold"), ("tier", "float")]
        ),
        Some(2)
    );
    // Latency histogram on the same labels.
    let hist = snap
        .histograms
        .iter()
        .find(|h| h.name == "request_latency_ns")
        .expect("latency histogram");
    assert_eq!(hist.count, 2);
    // Session counters and cache gauges merged in.
    assert_eq!(snap.counter("session_requests_total", &[]), Some(2));
    assert_eq!(snap.counter("session_float_decisions_total", &[]), Some(2));
    assert_eq!(snap.gauge("lineage_cache_entries", &[]), Some(1));
    assert!(snap.gauge("lineage_cache_capacity", &[]).unwrap() >= 1);
    assert_eq!(snap.gauge("instance_encodings", &[]), Some(1));
    let occupancy = session.cache_occupancy();
    assert_eq!(occupancy.lineage_entries, 1);
    assert_eq!(occupancy.encodings, 1);
    // The automaton state gauge was set during query compilation.
    assert!(snap.gauge("query_states", &[]).unwrap() > 0);

    // Export: JSON-lines round-trips the merged snapshot; the Prometheus
    // text names the key series.
    let round = MetricsSnapshot::from_json_lines(&snap.to_json_lines()).unwrap();
    assert_eq!(round, snap);
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE requests_total counter"));
    assert!(prom.contains("session_requests_total 2"));
    assert!(prom.contains("span_count{span=\"encode\"}"));
    assert!(prom.contains("request_latency_ns_bucket"));
}

/// `exact_limbs_total{pass}` is the arena size of every exact pass, pinned
/// by value: for one lineage and one valuation per pass kind it equals
/// `Σ_g ⌈(bits_g + 2) / 64⌉`, with `bits_g` the sum of `⌈log2(|pos_v| +
/// |neg_v|)⌉` over the events gate `g` depends on — computed here from the
/// circuit's gate scopes, not from the arena's own recurrence.
#[test]
fn exact_limbs_total_counts_arena_limbs_by_pass() {
    let telemetry = Telemetry::enabled();
    let mut session = EvalSession::new(config(1, telemetry));
    let qid = session.register_query(query());
    let mut inst = Instance::new(sig());
    for i in 0..6u64 {
        inst.add_fact_by_name("R", &[i, i + 1]);
        inst.add_fact_by_name("S", &[i + 1, i + 2]);
    }
    let facts = inst.fact_count();
    let iid = session.register_instance(inst.clone());
    // P(f) = 1 / 2^(20 + f): |pos| + |neg| = 2^(20 + f), so fact f's
    // literals have 20 + f bits and the sums cross limb boundaries.
    let probabilities: Vec<Rational> = (0..facts)
        .map(|f| Rational::new(BigInt::one(), BigUint::pow2(20 + f)))
        .collect();
    let valuation = ProbabilityValuation::from_probabilities(&inst, probabilities);
    // WMC weights (f + 1, 2^40): 41 bits per fact.
    let pos: Vec<Rational> = (0..facts)
        .map(|f| Rational::from_ratio_u64(f as u64 + 1, 1))
        .collect();
    let neg = vec![Rational::from_biguint(BigUint::pow2(40)); facts];
    assert!(session
        .batch_probability(&[ProbabilityRequest {
            query: qid,
            instance: iid,
            valuation,
        }])
        .iter()
        .all(|r| r.is_ok()));
    assert!(session
        .batch_wmc(&[WmcRequest {
            query: qid,
            instance: iid,
            pos,
            neg,
        }])
        .iter()
        .all(|r| r.is_ok()));
    assert!(session
        .batch_model_count(&[(qid, iid)])
        .iter()
        .all(|r| r.is_ok()));

    let lineage = session.lineage_artifact(qid, iid).unwrap();
    let scopes = lineage.structured().dnnf().circuit().gate_dependencies();
    let limbs = |bits: &dyn Fn(usize) -> usize| -> u64 {
        scopes
            .iter()
            .map(|scope| (scope.iter().map(|&v| bits(v)).sum::<usize>() + 2).div_ceil(64) as u64)
            .sum()
    };
    let want_probability = limbs(&|f| 20 + f);
    let want_wmc = limbs(&|_| 41);
    let want_count = limbs(&|_| 1);
    // The pins mean something: some slots are wider than one limb.
    assert!(want_probability > scopes.len() as u64);
    assert!(want_wmc > scopes.len() as u64);
    assert_eq!(want_count, scopes.len() as u64);

    let snap = session.metrics();
    for (pass, want) in [
        ("probability", want_probability),
        ("wmc", want_wmc),
        ("count", want_count),
    ] {
        assert_eq!(
            snap.counter("exact_limbs_total", &[("pass", pass)]),
            Some(want),
            "{pass}"
        );
    }
    let round = MetricsSnapshot::from_json_lines(&snap.to_json_lines()).unwrap();
    assert_eq!(round, snap);
    assert!(snap
        .to_prometheus()
        .contains(&format!("exact_limbs_total{{pass=\"wmc\"}} {want_wmc}")));
}
