//! Differential suite for the automaton pipeline
//! (`LineageBuilder::automaton_lineage`, the Section 6 route: tree
//! encoding, query→automaton compilation, provenance d-SDNNF): on random
//! treelike instances its probability, model count and weighted model count
//! must be *bit-identical* to the brute-force possible-worlds oracle and to
//! the OBDD route — while never materializing a query match — and its
//! artifact must equal the serving session's cold compile of the same pair.
//!
//! Instances come from the shared `treelineage_instance::strategies`
//! generators (random partial-k-trees with a known decomposition), so the
//! whole workspace brute-forces the same family of inputs.

use proptest::prelude::*;
use treelineage::prelude::*;
use treelineage::ParallelDnnf;
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

    /// Probability and model count: the automaton route vs the oracle and
    /// the OBDD route, with and without the known decomposition.
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

        let prob = |v: usize| valuation.probability(FactId(v)).clone();
        let builder = LineageBuilder::new(q, &inst).unwrap();
        let automaton = builder.automaton_lineage().unwrap();
        prop_assert_eq!(
            automaton.probability(&prob, 1),
            expected_probability.clone(),
            "automaton probability, query {}", q
        );
        prop_assert_eq!(
            automaton.model_count(1).to_u64(),
            expected_count.to_u64(),
            "automaton model count, query {}", q
        );
        // With the known decomposition driving the encoding.
        let with_td = builder.with_decomposition(td.clone()).unwrap().automaton_lineage().unwrap();
        prop_assert_eq!(
            with_td.probability(&prob, 1),
            expected_probability.clone(),
            "automaton probability with decomposition, query {}", q
        );
        // Cross-route equality (both already pinned against brute force
        // in tests/backend_differential.rs; this closes the loop pairwise).
        let shared = ProbabilityEvaluator::new(&inst, &valuation);
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
        let shared_dd = ProbabilityEvaluator::new(&inst, &valuation);
        let expected = shared_dd.query_wmc_bruteforce(q, &pos, &neg);
        let automaton = LineageBuilder::new(q, &inst).unwrap().automaton_lineage().unwrap();
        prop_assert_eq!(
            automaton.wmc(&|v| pos(FactId(v)), &|v| neg(FactId(v)), 1),
            expected.clone(),
            "automaton WMC, query {}", q
        );
        prop_assert_eq!(shared_dd.query_wmc(q, &pos, &neg).unwrap(), expected);
    }

    /// The automaton-pipeline artifact itself is certified: a smooth d-DNNF
    /// over exactly the fact universe, function-equal to the monotone match
    /// circuit on every world.
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

/// The builder's artifact and the session's cold compile of one pair,
/// registered with the builder's decomposition when one is given (the
/// session otherwise derives the same heuristic one).
fn both_entry_points(
    q: &UnionOfConjunctiveQueries,
    inst: &Instance,
    td: Option<&TreeDecomposition>,
    config: EngineConfig,
) -> (ParallelDnnf, ParallelDnnf) {
    let mut builder = LineageBuilder::new(q, inst)
        .unwrap()
        .with_engine_config(config.clone());
    let mut session = EvalSession::new(config);
    let qid = session.register_query(q.clone());
    let iid = match td {
        Some(td) => {
            builder = builder.with_decomposition(td.clone()).unwrap();
            session
                .register_instance_with_decomposition(inst.clone(), td.clone())
                .unwrap()
        }
        None => session.register_instance(inst.clone()),
    };
    let built = builder.automaton_lineage().unwrap();
    (built, session.cold_lineage(qid, iid).unwrap())
}

/// Asserts two artifacts are equal gate for gate, vtree node for node,
/// with the same universe and fragment ranges.
fn assert_same_artifact(a: &ParallelDnnf, b: &ParallelDnnf, context: &str) {
    let (ac, bc) = (
        a.structured().dnnf().circuit(),
        b.structured().dnnf().circuit(),
    );
    assert_eq!(ac.size(), bc.size(), "gate count, {context}");
    for id in ac.gate_ids() {
        assert_eq!(ac.gate(id), bc.gate(id), "gate {id:?}, {context}");
    }
    assert_eq!(ac.output(), bc.output(), "output, {context}");
    let (av, bv) = (a.structured().vtree(), b.structured().vtree());
    assert_eq!(av.node_count(), bv.node_count(), "vtree size, {context}");
    for i in 0..av.node_count() {
        let v = treelineage_circuit::VtreeId(i);
        assert_eq!(av.node(v), bv.node(v), "vtree node {i}, {context}");
    }
    assert_eq!(av.root(), bv.root(), "vtree root, {context}");
    assert_eq!(
        a.structured().universe(),
        b.structured().universe(),
        "universe, {context}"
    );
    assert_eq!(
        a.partition().fragments(),
        b.partition().fragments(),
        "fragments, {context}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two entry points to the Theorem 6.11 artifact build one
    /// artifact: a fresh `LineageBuilder::automaton_lineage` equals a fresh
    /// session's `cold_lineage` at threads {1, 2} with a small fragment
    /// grain, under the default and under an explicit decomposition.
    #[test]
    fn builder_and_session_compile_the_same_artifact(
        (inst, td) in strategies::treelike_instance_with_decomposition(sig(), 6, 2),
        qi in 0usize..5,
    ) {
        prop_assume!(inst.fact_count() > 0 && inst.fact_count() <= 12);
        let q = &queries()[qi];
        for threads in [1usize, 2] {
            let config = EngineConfig {
                fragment_grain: 4,
                ..EngineConfig::with_threads(threads)
            };
            for (name, td) in [("default", None), ("explicit", Some(&td))] {
                let (built, cold) = both_entry_points(q, &inst, td, config.clone());
                let context = format!("query {q}, threads={threads}, {name} decomposition");
                assert_same_artifact(&built, &cold, &context);
            }
        }
    }
}
