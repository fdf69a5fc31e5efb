//! Differential suite for the automaton pipeline (`LineageBackend::Automaton`,
//! the Section 6 route: tree encoding + query→automaton compilation +
//! provenance d-SDNNF): on random treelike instances its probability, model
//! count and weighted model count must be *bit-identical* to the brute-force
//! possible-worlds oracle and to the shared dd backend — while never
//! materializing a query match.
//!
//! Instances come from the shared `treelineage_instance::strategies`
//! generators (random partial-k-trees with a known decomposition), so the
//! whole workspace brute-forces the same family of inputs.

use proptest::prelude::*;
use treelineage::prelude::*;
use treelineage_instance::strategies;

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
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Probability and model count: automaton backend vs the oracle and the
    /// two other backends, with and without the known decomposition.
    #[test]
    fn automaton_backend_agrees_with_every_other_backend(
        (inst, td) in strategies::treelike_instance_with_decomposition(sig(), 6, 2),
        qi in 0usize..5,
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 12);
        let q = &queries()[qi];
        let probs: Vec<f64> = (0..inst.fact_count())
            .map(|i| [0.5, 0.25, 0.75, 0.125][i % 4])
            .collect();
        let valuation = ProbabilityValuation::from_f64(&inst, &probs);
        let oracle = ProbabilityEvaluator::new(&inst, &valuation);
        let expected_probability = oracle.query_probability_bruteforce(q);
        let expected_count = oracle.model_count_bruteforce(q);

        let automaton = ProbabilityEvaluator::new(&inst, &valuation)
            .with_backend(LineageBackend::Automaton);
        prop_assert_eq!(
            automaton.query_probability(q).unwrap(),
            expected_probability.clone(),
            "automaton probability, query {}", q
        );
        prop_assert_eq!(
            automaton.model_count(q).unwrap().to_u64(),
            expected_count.to_u64(),
            "automaton model count, query {}", q
        );
        // With the known decomposition driving the encoding.
        let with_td = ProbabilityEvaluator::new(&inst, &valuation)
            .with_backend(LineageBackend::Automaton)
            .with_decomposition(td.clone());
        prop_assert_eq!(
            with_td.query_probability(q).unwrap(),
            expected_probability.clone(),
            "automaton probability with decomposition, query {}", q
        );
        // Cross-backend equality (both already pinned against brute force
        // in tests/backend_differential.rs; this closes the loop pairwise).
        let shared = ProbabilityEvaluator::new(&inst, &valuation)
            .with_backend(LineageBackend::SharedDd);
        prop_assert_eq!(
            shared.query_probability(q).unwrap(),
            expected_probability.clone(),
            "shared dd probability, query {}", q
        );
        prop_assert_eq!(
            shared.model_count(q).unwrap().to_u64(),
            expected_count.to_u64(),
            "shared dd model count, query {}", q
        );
    }

    /// General-weight WMC through the automaton pipeline, against the
    /// brute-force oracle and the shared dd engine's `Manager::wmc`.
    #[test]
    fn automaton_wmc_agrees_with_bruteforce_and_shared_dd(
        inst in strategies::treelike_instance(sig(), 5, 2),
        qi in 0usize..5,
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 10);
        let q = &queries()[qi];
        let valuation = ProbabilityValuation::all_one_half(&inst);
        let pos = |f: FactId| Rational::from_ratio_u64(f.0 as u64 + 2, 3);
        let neg = |f: FactId| Rational::from_ratio_u64(1, f.0 as u64 + 1);
        let automaton = ProbabilityEvaluator::new(&inst, &valuation)
            .with_backend(LineageBackend::Automaton);
        let expected = automaton.query_wmc_bruteforce(q, &pos, &neg);
        prop_assert_eq!(
            automaton.query_wmc(q, &pos, &neg).unwrap(),
            expected.clone(),
            "automaton WMC, query {}", q
        );
        let shared_dd = ProbabilityEvaluator::new(&inst, &valuation)
            .with_backend(LineageBackend::SharedDd);
        prop_assert_eq!(shared_dd.query_wmc(q, &pos, &neg).unwrap(), expected);
    }

    /// The automaton-pipeline artifact itself is certified: a smooth d-DNNF
    /// over exactly the fact universe, function-equal to the monotone match
    /// circuit on every world, with coherent stats.
    #[test]
    fn automaton_lineage_artifact_is_certified(
        inst in strategies::treelike_instance(sig(), 5, 2),
        qi in 0usize..5,
    ) {
        use std::collections::BTreeSet;
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 10);
        let q = &queries()[qi];
        let builder = LineageBuilder::new(q, &inst).unwrap();
        let circuit = builder.circuit();
        let lineage = builder.automaton_lineage().unwrap();
        prop_assert!(lineage.structured().dnnf().is_smooth());
        prop_assert!(lineage
            .structured()
            .vtree()
            .respects(lineage.structured().dnnf().circuit())
            .is_ok());
        prop_assert_eq!(lineage.structured().universe().len(), inst.fact_count());
        prop_assert!(lineage.automaton_states() > 0);
        prop_assert!(lineage.tree_nodes() > 0);
        for mask in 0u32..(1 << inst.fact_count()) {
            let world: BTreeSet<usize> = (0..inst.fact_count())
                .filter(|i| mask >> i & 1 == 1)
                .collect();
            prop_assert_eq!(
                lineage.structured().dnnf().circuit().evaluate_set(&world),
                circuit.evaluate_set(&world),
                "query {}, mask {}", q, mask
            );
        }
    }
}
