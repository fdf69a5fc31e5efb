//! Cross-crate integration tests: the full pipelines of the paper, end to
//! end, checked against brute-force oracles.

use std::collections::BTreeSet;
use treelineage::prelude::*;
use treelineage_graph::{counting, generators};
use treelineage_hardness as hardness;
use treelineage_instance::encodings;
use treelineage_query::{intricate, matching};
use treelineage_safe as safe;

fn rst() -> Signature {
    Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .relation("T", 1)
        .build()
}

#[test]
fn lineage_probability_and_counting_agree_on_treelike_instances() {
    let sig = Signature::builder()
        .relation("S", 2)
        .relation("R", 2)
        .build();
    let q = parse_query(&sig, "S(x, y), S(y, z), x != z | R(x, y), S(y, z)").unwrap();
    for seed in 0..5u64 {
        let inst = encodings::random_treelike_instance(&sig, 7, 2, seed);
        if inst.fact_count() == 0 || inst.fact_count() > 14 {
            continue;
        }
        let valuation = ProbabilityValuation::all_one_half(&inst);
        let evaluator = ProbabilityEvaluator::new(&inst, &valuation);
        let p = evaluator.query_probability(&q).unwrap();
        assert_eq!(p, evaluator.query_probability_bruteforce(&q));
        assert_eq!(
            evaluator.model_count(&q).unwrap().to_u64(),
            evaluator.model_count_bruteforce(&q).to_u64()
        );
    }
}

#[test]
fn theorem_4_2_mechanism_counts_matchings_of_planar_cubic_graphs() {
    for rungs in 3..=5usize {
        let graph = generators::circular_ladder_graph(rungs);
        assert!(graph.is_k_regular(3));
        let reduction = hardness::matching_reduction(&graph);
        assert_eq!(
            reduction.matchings_from_probability.to_decimal_string(),
            reduction.matchings_direct.to_decimal_string()
        );
        if graph.edge_count() <= 25 {
            assert_eq!(
                reduction.matchings_direct.to_u64(),
                counting::count_matchings_bruteforce(&graph).to_u64()
            );
        }
    }
}

#[test]
fn theorem_8_1_width_separation_between_grids_and_chains() {
    let (grid3, _) = hardness::obdd_width_of_qp_on_grid(3);
    let (grid5, _) = hardness::obdd_width_of_qp_on_grid(5);
    let (chain, _) = hardness::obdd_width_of_qp_on_chain(60);
    assert!(
        grid5 > grid3,
        "width must grow with the grid: {grid3} -> {grid5}"
    );
    assert!(
        grid5 > 2 * chain,
        "grids must dominate chains: {grid5} vs {chain}"
    );
}

#[test]
fn theorem_8_7_intricacy_classification() {
    let single = Signature::builder().relation("S", 2).build();
    assert!(intricate::is_n_intricate(&hardness::qp(&single), 0));
    // Connected CQ≠ and UCQs are never intricate (Propositions 8.8, 8.9).
    for text in ["S(x, y), S(y, z), x != z", "S(x, y), S(y, z)", "S(x, y)"] {
        let q = parse_query(&single, text).unwrap();
        assert!(!intricate::is_intricate(&q), "{text}");
    }
    let unsafe_q = parse_query(&rst(), "R(x), S(x, y), T(y)").unwrap();
    assert!(!intricate::is_intricate(&unsafe_q));
}

#[test]
fn theorem_9_7_unfolding_pipeline() {
    let sig = Signature::builder()
        .relation("R", 1)
        .relation("S", 2)
        .build();
    let q = parse_query(&sig, "R(x), S(x, y)").unwrap();
    assert!(safe::is_inversion_free(&q));
    let mut inst = Instance::new(sig.clone());
    for a in 1u64..=4 {
        inst.add_fact_by_name("R", &[a]);
        for c in 1u64..=2 {
            inst.add_fact_by_name("S", &[a, 10 + c]);
        }
    }
    let unfolding = safe::unfold_for_query(&q, &inst).unwrap();
    assert!(unfolding.tree_depth <= 2);
    assert!(safe::lineage_preserved(&q, &inst, &unfolding));
    // Same probability on both instances under corresponding valuations.
    let valuation = ProbabilityValuation::all_one_half(&inst);
    let p_original = ProbabilityEvaluator::new(&inst, &valuation)
        .query_probability(&q)
        .unwrap();
    let unfolded_valuation = ProbabilityValuation::all_one_half(&unfolding.instance);
    let p_unfolded = ProbabilityEvaluator::new(&unfolding.instance, &unfolded_valuation)
        .query_probability(&q)
        .unwrap();
    assert_eq!(p_original, p_unfolded);
}

#[test]
fn obdd_and_ddnnf_lineages_agree_with_direct_evaluation_on_grids() {
    let sig = Signature::builder().relation("S", 2).build();
    let s = sig.relation_by_name("S").unwrap();
    let inst = encodings::grid_instance(&sig, s, 2, 3);
    let q = hardness::qp(&sig);
    let builder = LineageBuilder::new(&q, &inst).unwrap();
    let (manager, root) = builder.dd();
    let ddnnf = builder.ddnnf();
    let n = inst.fact_count();
    for mask in 0u32..(1 << n) {
        let world: BTreeSet<FactId> = (0..n).filter(|i| mask >> i & 1 == 1).map(FactId).collect();
        let expected = matching::satisfied_in_world(&q, &inst, &world);
        let vars: BTreeSet<usize> = world.iter().map(|f| f.0).collect();
        assert_eq!(manager.evaluate(root, &vars), expected);
        assert_eq!(ddnnf.circuit().evaluate_set(&vars), expected);
    }
}

#[test]
fn match_counting_matches_independent_set_dp_on_trees() {
    let sig = Signature::builder()
        .relation("E", 2)
        .relation("Sel", 1)
        .build();
    let e = sig.relation_by_name("E").unwrap();
    let q = parse_query(&sig, "E(x, y), Sel(x), Sel(y)").unwrap();
    for seed in 0..3u64 {
        let tree = generators::random_tree(9, seed);
        let inst = encodings::graph_instance(&tree, &sig, e);
        let counter = MatchCounter::new(&q, &inst, vec!["Sel"]);
        let bad = counter.count().unwrap().to_u64().unwrap();
        let total = 1u64 << tree.vertex_count();
        let independent = counting::count_independent_sets(&tree).to_u64().unwrap();
        assert_eq!(total - bad, independent, "seed {seed}");
    }
}
