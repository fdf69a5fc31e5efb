//! Parallel-determinism differential suite (PR 5): the engine's
//! bit-identity contract, pinned end to end.
//!
//! Two layers of guarantees are exercised on random treelike instances
//! (`treelineage_instance::strategies`) and random uncertain trees
//! (`treelineage_automata::strategies`):
//!
//! * **byte-identical artifacts** — the parallel subtree compiler's circuit
//!   and vtree equal the sequential `compile_structured_dnnf`'s gate for
//!   gate and node for node, at every thread count (no iteration-order
//!   leakage from worker scheduling);
//! * **exactly equal answers** — every lineage backend returns the same
//!   probability / model count / WMC at `threads ∈ {1, 2, 8}` (plus the
//!   count from `TREELINEAGE_THREADS`, which the CI matrix leg sets to 8),
//!   and an `EvalSession`'s cache hits return exactly what the cold compile
//!   returned.
//!
//! All arithmetic is exact, so "equal" means `==` on `Rational`/`BigUint`,
//! not approximate agreement.

use proptest::prelude::*;
use treelineage::prelude::*;
use treelineage::ProbabilityRequest;
use treelineage_automata::{compile_structured_dnnf, strategies as tree_strategies};
use treelineage_engine::compile_structured_dnnf_parallel;
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

/// The thread counts under test: the fixed grid plus the CI matrix value.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 8];
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

const BACKENDS: [LineageBackend; 2] = [LineageBackend::SharedDd, LineageBackend::Automaton];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every backend, at every thread count, returns exactly the answers of
    /// the sequential default configuration.
    #[test]
    fn backends_are_thread_count_invariant(
        (inst, td) in instance_strategies::treelike_instance_with_decomposition(sig(), 7, 2),
        qi in 0usize..3,
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 10);
        let q = &queries()[qi];
        let probs: Vec<f64> = (0..inst.fact_count()).map(|i| [0.5, 0.25, 0.75][i % 3]).collect();
        let valuation = ProbabilityValuation::from_f64(&inst, &probs);
        let pos = |f: FactId| Rational::from_ratio_u64(f.0 as u64 + 2, 3);
        let neg = |f: FactId| Rational::from_ratio_u64(1, f.0 as u64 + 1);
        for backend in BACKENDS {
            let sequential = ProbabilityEvaluator::new(&inst, &valuation)
                .with_decomposition(td.clone())
                .with_backend(backend);
            let p0 = sequential.query_probability(q).unwrap();
            let mc0 = sequential.model_count(q).unwrap();
            let wmc0 = sequential.query_wmc(q, &pos, &neg).unwrap();
            for threads in thread_counts() {
                let mut config = EngineConfig::with_threads(threads);
                // A tiny grain forces the cut/merge path even on these
                // small instances, so the merge logic is what's tested.
                config.fragment_grain = 4;
                let parallel = ProbabilityEvaluator::new(&inst, &valuation)
                    .with_decomposition(td.clone())
                    .with_backend(backend)
                    .with_engine_config(config);
                prop_assert_eq!(parallel.query_probability(q).unwrap(), p0.clone(),
                    "{:?} probability, threads={}", backend, threads);
                prop_assert_eq!(parallel.model_count(q).unwrap(), mc0.clone(),
                    "{:?} model count, threads={}", backend, threads);
                prop_assert_eq!(parallel.query_wmc(q, &pos, &neg).unwrap(), wmc0.clone(),
                    "{:?} wmc, threads={}", backend, threads);
            }
        }
    }

    /// The parallel compiler's artifact is byte-identical to the sequential
    /// one on random uncertain trees: same gates at the same ids with the
    /// same operands, same vtree, same universe.
    #[test]
    fn parallel_artifacts_are_byte_identical(
        tree in tree_strategies::uncertain_tree(48, 3),
        automaton in tree_strategies::deterministic_automaton(3, 4),
    ) {
        let sequential = match compile_structured_dnnf(&automaton, &tree) {
            Ok(s) => s,
            // Shared events: rejected identically (engine unit tests pin this).
            Err(_) => continue,
        };
        for threads in thread_counts() {
            let mut config = EngineConfig::with_threads(threads);
            config.fragment_grain = 6;
            let parallel = compile_structured_dnnf_parallel(&automaton, &tree, &config).unwrap();
            let pc = parallel.structured().dnnf().circuit();
            let sc = sequential.dnnf().circuit();
            prop_assert_eq!(pc.size(), sc.size());
            for id in pc.gate_ids() {
                prop_assert_eq!(pc.gate(id), sc.gate(id), "gate {:?}, threads={}", id, threads);
            }
            prop_assert_eq!(pc.output(), sc.output());
            let (pv, sv) = (parallel.structured().vtree(), sequential.vtree());
            prop_assert_eq!(pv.node_count(), sv.node_count());
            for i in 0..pv.node_count() {
                prop_assert_eq!(
                    pv.node(treelineage_circuit::VtreeId(i)),
                    sv.node(treelineage_circuit::VtreeId(i))
                );
            }
            prop_assert_eq!(pv.root(), sv.root());
            prop_assert_eq!(parallel.structured().universe(), sequential.universe());
        }
    }

    /// `EvalSession` cache correctness: a cold compile and a cache hit
    /// return exactly the same batch results, for both session backends,
    /// and both equal the core evaluator's shared-dd answer.
    #[test]
    fn session_cache_hits_equal_cold_results(
        (inst, td) in instance_strategies::treelike_instance_with_decomposition(sig(), 7, 2),
        qi in 0usize..3,
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 10);
        let q = queries()[qi].clone();
        let probs: Vec<f64> = (0..inst.fact_count()).map(|i| [0.5, 0.25, 0.75][i % 3]).collect();
        let valuation = ProbabilityValuation::from_f64(&inst, &probs);
        // The oracle: match enumeration compiled through the dd engine, an
        // independent route from the session's automaton lineage.
        let expected = ProbabilityEvaluator::new(&inst, &valuation)
            .with_decomposition(td.clone())
            .with_backend(LineageBackend::SharedDd)
            .query_probability(&q)
            .unwrap();
        for backend in [SessionBackend::Automaton, SessionBackend::FloatFirst] {
            let mut session =
                EvalSession::with_backend(EngineConfig::with_threads(2), backend);
            let qid = session.register_query(q.clone());
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
            let cold = session.batch_probability(&requests);
            let stats_cold = session.stats();
            let warm = session.batch_probability(&requests);
            let stats_warm = session.stats();
            prop_assert_eq!(&cold, &warm, "{:?}", backend);
            // The warm batch compiled nothing new.
            prop_assert_eq!(stats_cold.lineage_misses, stats_warm.lineage_misses);
            prop_assert!(stats_warm.lineage_hits > stats_cold.lineage_hits);
            // And the answers match the dd oracle exactly.
            for result in cold {
                prop_assert_eq!(result.unwrap(), expected.clone());
            }
        }
    }
}
