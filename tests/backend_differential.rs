//! Cross-route differential suite: on random treelike instances and
//! random uncertain trees, *both* lineage objects must return exactly the
//! same probability, model count and weighted model count as the
//! brute-force possible-worlds oracle.
//!
//! Routes under test:
//! * brute force (possible-worlds enumeration — the oracle),
//! * the OBDD route: `ProbabilityEvaluator` over the shared hash-consed dd
//!   engine, also the general-weight WMC route,
//! * the automaton route (`LineageBuilder::automaton_lineage`: tree
//!   encoding + query→automaton compilation, exercised in depth by
//!   `tests/pipeline_differential.rs`), and its provenance d-SDNNF directly
//!   on random uncertain trees (from `compile_structured_dnnf`).
//!
//! Instances come from the shared `treelineage_instance::strategies`
//! generators; generation is deterministic through the in-tree proptest
//! shim (cases are seeded from the test name, optionally perturbed by
//! `PROPTEST_SEED` — CI pins that seed so the release-mode run is
//! reproducible).

use proptest::prelude::*;
use treelineage::prelude::*;
use treelineage_automata::{
    acceptance_probability_bruteforce, compile_structured_dnnf, strategies,
};
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
        "R(x, y), R(y, z), x != z | S(x, y), S(y, z), x != z",
        "L(x)",
    ]
    .iter()
    .map(|t| parse_query(&sig(), t).unwrap())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Probability and model count on random treelike instances: both
    /// routes against the possible-worlds oracle, for every query.
    #[test]
    fn backends_agree_with_bruteforce_on_treelike_instances(
        inst in instance_strategies::treelike_instance(sig(), 6, 2),
        qi in 0usize..5,
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 12);
        let q = &queries()[qi];
        let probs: Vec<f64> = (0..inst.fact_count())
            .map(|i| [0.5, 0.25, 0.75, 0.125][i % 4])
            .collect();
        let valuation = ProbabilityValuation::from_f64(&inst, &probs);
        let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
        let expected_probability = evaluator.query_probability_bruteforce(q);
        let expected_count = evaluator.model_count_bruteforce(q);
        let automaton = LineageBuilder::new(q, &inst).unwrap().automaton_lineage().unwrap();
        let prob = |v: usize| valuation.probability(FactId(v)).clone();
        for (route, probability, count) in [
            ("obdd", evaluator.query_probability(q).unwrap(), evaluator.model_count(q).unwrap()),
            ("automaton", automaton.probability(&prob, 1), automaton.model_count(1)),
        ] {
            prop_assert_eq!(
                probability,
                expected_probability.clone(),
                "probability via {}, query {}", route, q
            );
            prop_assert_eq!(
                count.to_u64(),
                expected_count.to_u64(),
                "model count via {}, query {}", route, q
            );
        }
    }

    /// General-weight WMC (weights not summing to 1 per fact) on both
    /// routes — the dd engine's `Manager::wmc` for the OBDD, the smooth
    /// provenance d-SDNNF for the automaton — against direct enumeration.
    #[test]
    fn structured_wmc_agrees_with_bruteforce(
        inst in instance_strategies::treelike_instance(sig(), 5, 2),
        qi in 0usize..5,
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 10);
        let q = &queries()[qi];
        let valuation = ProbabilityValuation::all_one_half(&inst);
        let pos = |f: FactId| Rational::from_ratio_u64(f.0 as u64 + 2, 3);
        let neg = |f: FactId| Rational::from_ratio_u64(1, f.0 as u64 + 1);
        let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
        let expected = evaluator.query_wmc_bruteforce(q, &pos, &neg);
        let automaton = LineageBuilder::new(q, &inst).unwrap().automaton_lineage().unwrap();
        for (route, wmc) in [
            ("obdd", evaluator.query_wmc(q, &pos, &neg).unwrap()),
            ("automaton", automaton.wmc(&|v| pos(FactId(v)), &|v| neg(FactId(v)), 1)),
        ] {
            prop_assert_eq!(wmc, expected.clone(), "WMC via {}, query {}", route, q);
        }
    }

    /// The automaton-provenance d-SDNNF against the uncertain-tree oracle
    /// and against the shared dd engine compiling the same provenance
    /// function over the event universe.
    #[test]
    fn automaton_dsdnnf_agrees_with_all_engines(
        tree in strategies::uncertain_tree(4, 2),
        automaton in strategies::deterministic_automaton(2, 2),
    ) {
        let structured = compile_structured_dnnf(&automaton, &tree).unwrap();
        let events = tree.events();
        prop_assert!(events.len() <= 7);
        let prob = |e: usize| Rational::from_ratio_u64(1, e as u64 + 2);

        // Oracle: brute-force acceptance probability.
        let expected = acceptance_probability_bruteforce(&automaton, &tree, &prob);
        prop_assert_eq!(structured.probability(&prob), expected.clone());

        // The shared dd engine over the same provenance function.
        let raw = treelineage_automata::provenance_circuit(&automaton, &tree);
        let mut manager = DdManager::new(events.clone());
        let root = manager.compile_circuit(&raw);
        prop_assert_eq!(manager.probability(root, &prob), expected);

        // Model counts over the event universe agree with each other and
        // with brute force over the provenance circuit.
        prop_assert_eq!(
            structured.model_count().to_u64(),
            Some(raw.count_models_bruteforce(&events))
        );
        prop_assert_eq!(
            structured.model_count().to_u64(),
            manager.count_models(root).to_u64()
        );
    }
}
